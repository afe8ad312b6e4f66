"""Tests for the weight pair, the virial functionals and the pointwise
algebraic identities."""

import numpy as np
import pytest

from skdv.model import InitialData, ModelParams, SystemState, make_initial_data
from skdv.spectral import ComplexField, RealField, SpectralGrid
from skdv.virial import (
    IdentityResidualSample,
    VirialConfig,
    Weights,
    _window_times,
    check_key_identities,
    functional_J2,
    functional_J3,
    identity_residual_combined,
    identity_residual_prop2,
    identity_residual_prop3,
    weight_derivative_bounds,
    weight_g,
    weight_g1,
    weight_g2,
    weight_w,
    window_entry,
)


class TestWeights:
    def test_w_prime_equals_g(self):
        # finite differences of w against the closed form of g
        x = np.linspace(-30.0, 30.0, 3001)
        h = 1e-5
        fd = (weight_w(x + h) - weight_w(x - h)) / (2.0 * h)
        assert np.max(np.abs(fd - weight_g(x))) < 1e-10

    def test_g_prime_closed_form(self):
        x = np.linspace(-30.0, 30.0, 2001)
        h = 1e-5
        fd = (weight_g(x + h) - weight_g(x - h)) / (2.0 * h)
        assert np.max(np.abs(fd - weight_g1(x))) < 1e-10

    def test_g_second_closed_form(self):
        x = np.linspace(-30.0, 30.0, 2001)
        h = 1e-4
        fd = (weight_g(x + h) - 2.0 * weight_g(x) + weight_g(x - h)) / h**2
        assert np.max(np.abs(fd - weight_g2(x))) < 1e-7

    def test_limits_and_symmetry(self):
        x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
        w = weight_w(x)
        assert w[0] == pytest.approx(0.0, abs=1e-300)
        assert w[2] == pytest.approx(np.pi / 4.0)
        assert w[4] == pytest.approx(np.pi / 2.0)
        assert np.all(np.isfinite(weight_g(x)))
        assert weight_g(0.0) == pytest.approx(0.5)
        assert np.allclose(weight_g(x), weight_g(-x))

    def test_exponential_bound(self):
        rep = weight_derivative_bounds()
        assert np.isfinite(rep.smallest_c)
        assert rep.smallest_c < 5.0
        # the bound is attained away from the edges, so the edge ratio is
        # strictly smaller than the supremum
        assert rep.ratio_at_edge <= rep.smallest_c


class TestVirialConfig:
    def test_r1_derived(self):
        cfg = VirialConfig(p1=0.25, p2=2.5)
        assert cfg.r1 == pytest.approx(0.75)
        wt = Weights(SpectralGrid(2, 1.0), cfg, 4.0)
        assert wt.eta * wt.l1 == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VirialConfig(p1=0.5, p2=2.5)  # p1 >= 2/(p2+2)
        with pytest.raises(ValueError):
            VirialConfig(p1=0.25, p2=0.5)
        with pytest.raises(ValueError):
            VirialConfig(theta2=-1.0)

    def test_theta3_auto(self):
        cfg = VirialConfig()
        assert cfg.theta3_value(ModelParams(2.0, 0.0, 3.0)) == pytest.approx(3.0)
        assert VirialConfig(theta3=1.5).theta3_value(ModelParams(1.0, 0.0, 1.0)) == 1.5
        with pytest.raises(ValueError):
            cfg.theta3_value(ModelParams(0.0, 0.0, 1.0))


@pytest.fixture
def state():
    grid = SpectralGrid(512, 32.0)
    return make_initial_data(
        InitialData(family="modulated_gaussian", amplitude_u=0.5, amplitude_v=0.4,
                    carrier=0.5), grid
    )


class TestFunctionals:
    def test_j2_nonnegative(self, state):
        cfg = VirialConfig()
        st = SystemState(state.u, state.v, 3.0)
        assert functional_J2(st, cfg) > 0.0

    def test_requires_positive_time(self, state):
        # the functionals read the weights at state.time, which exist only at t > 0
        with pytest.raises(ValueError, match="t > 0"):
            functional_J2(state, VirialConfig())
        with pytest.raises(ValueError, match="t > 0"):
            functional_J3(state, VirialConfig(), ModelParams(1.0, 0.0, 1.0))

    def test_j3_scales_with_theta(self, state):
        params = ModelParams(1.0, 0.0, 1.0)
        st = SystemState(state.u, state.v, 3.0)
        a = functional_J3(st, VirialConfig(theta3=1.0), params)
        b = functional_J3(st, VirialConfig(theta3=2.0), params)
        assert b == pytest.approx(2.0 * a, rel=1e-13)


class TestWeightTables:
    @pytest.mark.parametrize("t", [0.5, 2.0, 3.7, 150.0])
    def test_tables_match_weight_functions(self, t):
        # sech and tanh are shared within Weights; every table must equal
        # the public weight functions of the same arguments bit for bit
        grid = SpectralGrid(512, 64.0)
        cfg = VirialConfig()
        wt = Weights(grid, cfg, t)
        l1, l2 = t**cfg.p1, t ** (cfg.p1 * cfg.p2)
        assert (wt.l1, wt.l2) == (l1, l2)
        x1, x2 = grid.x / l1, grid.x / l2
        expected = {
            "w": weight_w(x1),
            "g": weight_g(x2),
            "wp": weight_g(x1),
            "gp": weight_g1(x2),
            "wg": weight_w(x1) * weight_g(x2),
            "wpg": weight_g(x1) * weight_g(x2),
            "d2": (weight_g1(x1) * weight_g(x2) / l1**2
                   + 2.0 * weight_g(x1) * weight_g1(x2) / (l1 * l2)
                   + weight_w(x1) * weight_g2(x2) / l2**2),
        }
        for name, want in expected.items():
            assert getattr(wt, name).tobytes() == want.tobytes(), name

    def test_built_once_per_key_and_read_only(self):
        # Weights.at keeps the tables of its latest (grid, config, t): an
        # equal key, from other but equal objects, gets the same tables
        Weights.at.cache_clear()
        grid, cfg = SpectralGrid(64, 8.0), VirialConfig()
        wt = Weights.at(grid, cfg, 2.5)
        assert Weights.at(SpectralGrid(64, 8.0), VirialConfig(), 2.5) is wt
        assert Weights.at(grid, cfg, 2.75) is not wt
        assert Weights.at(grid, VirialConfig(p2=3.0), 2.75).l2 != wt.l2
        for name in ("x1", "x2", "w", "g", "wp", "gp", "wg", "wpg", "d2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(wt, name)[0] = 0.0


class TestWindowTimes:
    def _states(self, state, times):
        return [SystemState(state.u, state.v, t) for t in times]

    def test_returns_first_spacing(self, state):
        times = [2.0 + j * 0.1 for j in range(-2, 3)]
        assert _window_times(self._states(state, times)) == times[1] - times[0]

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 5e-9, 1.5e-8, 1e-7, 1e-3, -1e-3])
    def test_same_condition_as_allclose(self, state, eps):
        # one spacing perturbed by eps: accepted exactly when np.allclose
        # (rtol 1e-8, atol 1e-8) accepts the spacings
        times = [1.8, 1.9, 2.0 + eps, 2.1, 2.2]
        hs = np.diff(times)
        states = self._states(state, times)
        if np.allclose(hs, hs[0], rtol=1e-8):
            assert _window_times(states) == hs[0]
        else:
            with pytest.raises(ValueError, match="uniformly spaced"):
                _window_times(states)

    def test_rejects_short_window_and_early_centre(self, state):
        with pytest.raises(ValueError, match="5 consecutive"):
            _window_times(self._states(state, [2.0, 2.1, 2.2, 2.3]))
        with pytest.raises(ValueError, match="t >= 2"):
            _window_times(self._states(state, [1.0, 1.1, 1.2, 1.3, 1.4]))


class TestWindowResiduals:
    PARAMS = ModelParams(1.0, 0.5, 1.3)

    @classmethod
    def _window(cls, state, cfg, times=(1.8, 1.9, 2.0, 2.1, 2.2)):
        """window_entry of five states at ``times``, each field rescaled."""
        grid = state.grid
        return [window_entry(SystemState(ComplexField(grid, state.u.samples * (1.0 + 0.05j * j)),
                                         RealField(grid, state.v.samples * (1.0 - 0.03 * j)), t),
                             cfg, cls.PARAMS)
                for j, t in enumerate(times)]

    def test_stencil_by_hand(self, state):
        # -dJ/dt by the five-point stencil plus the centre's pieces, summed
        # here from the WindowEntry fields
        window = self._window(state, VirialConfig())
        h = 0.1
        (j2_int, lhs2, cubic, mixed2), (j3_int, grad, quartic, mixed3) = window[2].pieces

        def dt4(values):
            return (values[0] - values[4] + 8.0 * (values[3] - values[1])) / (12.0 * h)

        rhs2 = -dt4([e.j2 for e in window]) + j2_int + cubic - mixed2
        rhs3 = -dt4([e.j3 for e in window]) + j3_int + mixed3
        for got, lhs, rhs in ((identity_residual_prop2(window), lhs2, rhs2),
                              (identity_residual_prop3(window), grad + quartic, rhs3)):
            assert got.time == window[2].time and got.lhs == lhs
            assert got.rhs == pytest.approx(rhs, rel=1e-12)
            assert got.residual == pytest.approx(lhs - rhs, rel=1e-9)

    def test_combined_is_the_sum_under_auto(self, state):
        cfg = VirialConfig()
        window = self._window(state, cfg)
        r2, r3 = identity_residual_prop2(window), identity_residual_prop3(window)
        assert identity_residual_combined(r2, r3, cfg) == IdentityResidualSample(
            r2.time, r2.lhs + r3.lhs, r2.rhs + r3.rhs, r2.residual + r3.residual)
        assert cfg.coefficient_sum(self.PARAMS) == pytest.approx(0.0, abs=1e-15)

    def test_no_combined_sample_for_numeric_theta3(self, state):
        cfg = VirialConfig(theta3=0.7)
        window = self._window(state, cfg)
        r2, r3 = identity_residual_prop2(window), identity_residual_prop3(window)
        assert identity_residual_combined(r2, r3, cfg) is None
        assert np.isfinite(r2.residual) and np.isfinite(r3.residual)

    @pytest.mark.parametrize("residual", [identity_residual_prop2, identity_residual_prop3])
    @pytest.mark.parametrize("times,match", [
        ((1.8, 1.9, 2.0, 2.1, 2.25), "uniformly spaced"),
        ((1.7, 1.8, 1.9, 2.0, 2.1), "t >= 2"),
    ])
    def test_rejects_uneven_window_and_early_centre(self, state, residual, times, match):
        with pytest.raises(ValueError, match=match):
            residual(self._window(state, VirialConfig(), times))


class TestKeyIdentities:
    @pytest.mark.parametrize(
        "alpha,beta,gamma",
        [(1.0, 1.0, 1.0), (2.0, -0.5, 0.7), (0.3, -1.2, 2.1)],
    )
    def test_pointwise_on_random_fields(self, alpha, beta, gamma):
        grid = SpectralGrid(256, 16.0)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        v = rng.standard_normal(256)
        state = SystemState(ComplexField(grid, u), RealField(grid, v), 1.0)
        rep = check_key_identities(state, ModelParams(alpha, beta, gamma))
        assert rep.cubic_split_max_err < 1e-12 * rep.scale
        assert rep.quartic_max_err < 1e-12 * rep.scale
        assert rep.u_cubed_max_err < 1e-12 * rep.scale

    def test_degenerate_rejected(self):
        grid = SpectralGrid(64, 8.0)
        state = SystemState(
            ComplexField(grid, np.zeros(64, complex)), RealField(grid, np.zeros(64)), 1.0
        )
        with pytest.raises(ValueError):
            check_key_identities(state, ModelParams(0.0, 1.0, 1.0))
