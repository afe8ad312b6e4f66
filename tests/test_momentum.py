"""Tests for first moments and the linear-drift diagnostics."""

import numpy as np
import pytest

from skdv.model import InitialData, ModelParams, SystemState, make_initial_data
from skdv.momentum import MomentSample, drift_check, moment_sample, predicted_slope
from skdv.spectral import ComplexField, RealField, SpectralGrid


@pytest.fixture
def grid():
    return SpectralGrid(512, 32.0)


class TestMomentSample:
    def test_even_fields_have_zero_moments(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.4), grid
        )
        s = moment_sample(state, ModelParams(1.0, 0.0, 1.0))
        assert abs(s.b_moment) < 1e-12
        assert abs(s.u_moment) < 1e-12
        assert abs(s.f_moment) < 1e-12

    def test_odd_v_moment(self, grid):
        # v = x exp(-x^2): int x v = int x^2 exp(-x^2) = sqrt(pi)/2
        v = grid.x * np.exp(-grid.x**2)
        state = SystemState(
            ComplexField(grid, np.zeros(grid.num_points, complex)),
            RealField(grid, v), 0.0,
        )
        s = moment_sample(state, ModelParams(1.0, 0.0, 1.0))
        assert s.b_moment == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)

    def test_f_combination(self, grid):
        u = np.exp(-((grid.x - 1.0) ** 2)).astype(complex)
        v = np.exp(-((grid.x + 2.0) ** 2))
        state = SystemState(ComplexField(grid, u), RealField(grid, v), 0.0)
        params = ModelParams(2.0, 0.0, 0.5)
        s = moment_sample(state, params)
        assert s.f_moment == pytest.approx(
            -(2.0 * 2.0 / 0.5) * s.b_moment + s.u_moment, rel=1e-13
        )

    def test_gamma_zero_rejected(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        with pytest.raises(ValueError):
            moment_sample(state, ModelParams(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            predicted_slope(state, ModelParams(1.0, 0.0, 0.0))


class TestPredictedSlope:
    def test_u_zero_reduces_to_minus_q_over_gamma(self, grid):
        # with u0 = 0, Q(0) = alpha int v^2 and the slope is -alpha/gamma * ||v||^2
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.0, amplitude_v=0.5), grid
        )
        params = ModelParams(2.0, 0.0, 0.5)
        v_sq = 0.25 * np.sqrt(np.pi / 2.0)
        assert predicted_slope(state, params) == pytest.approx(
            -2.0 / 0.5 * v_sq, rel=1e-12
        )

    def test_zero_state(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        assert predicted_slope(state, ModelParams(1.0, 1.0, 1.0)) == 0.0


def _synthetic_samples(slope, n=20, b_rate=0.3):
    """Exact affine F(t) and B(t) with a constant ||v||^2 chosen so that
    the dB/dt law holds with u0 = 0."""
    samples = []
    v_sq = 2.0 * b_rate  # dB/dt = ||v||^2 / 2 with gamma ||u0||^2 = 0
    for t in np.linspace(0.0, 2.0, n):
        b = b_rate * t + 0.1
        f = slope * t - 0.4
        samples.append(MomentSample(
            time=float(t), b_moment=b, u_moment=0.0, f_moment=f, v_l2_sq=v_sq,
        ))
    return samples


class TestDriftCheck:
    def test_exact_affine_series(self):
        rep = drift_check(_synthetic_samples(1.5), ModelParams(1.0, 0.0, 1.0), 1.5, 0.0)
        assert rep.slope_rel_error < 1e-12
        assert rep.fit_residual < 1e-12
        assert rep.db_dt_max_error < 1e-12
        assert not rep.slope_near_zero

    def test_detects_wrong_slope(self):
        rep = drift_check(_synthetic_samples(1.5), ModelParams(1.0, 0.0, 1.0), 3.0, 0.0)
        assert rep.slope_rel_error == pytest.approx(0.5, rel=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            drift_check(_synthetic_samples(1.0, n=5), ModelParams(1.0, 0.0, 1.0), 1.0, 0.0)

    def test_near_zero_slope_flagged(self):
        rep = drift_check(_synthetic_samples(0.0, b_rate=0.0),
                          ModelParams(1.0, 0.0, 1.0), 0.0, 0.0)
        assert rep.slope_near_zero
