"""Tests for model parameters, initial data families and the nonlinear
terms of the model, formed from the spectral products and derivatives."""

import numpy as np
import pytest

from skdv.model import (
    InitialData,
    ModelParams,
    SystemState,
    kdv_soliton_profile,
    make_initial_data,
)
from skdv.spectral import (
    ComplexField,
    RealField,
    SpectralGrid,
    dealiased_product_samples,
    derivative_samples,
    integrate,
)


@pytest.fixture
def grid():
    return SpectralGrid(256, 32.0)


class TestModelParams:
    def test_regime(self):
        assert ModelParams(1.0, 0.0, 1.0).full_regime
        assert ModelParams(-2.0, 1.0, -0.5).full_regime
        assert not ModelParams(1.0, 0.0, -1.0).full_regime


class TestSystemState:
    def test_grid_mismatch(self, grid):
        other = SpectralGrid(128, 32.0)
        u = ComplexField(grid, np.zeros(256, dtype=complex))
        v = RealField(other, np.zeros(128))
        with pytest.raises(ValueError):
            SystemState(u, v)


class TestInitialData:
    def test_gaussian(self, grid):
        spec = InitialData(family="gaussian", amplitude_u=0.5, width_u=2.0)
        state = make_initial_data(spec, grid)
        assert state.u.samples[128] == pytest.approx(0.5)  # x = 0
        assert np.max(np.abs(state.u.samples.imag)) == 0.0

    def test_modulated_gaussian_carrier(self, grid):
        spec = InitialData(family="modulated_gaussian", carrier=1.0)
        state = make_initial_data(spec, grid)
        assert np.max(np.abs(np.abs(state.u.samples) - np.exp(-grid.x**2))) < 1e-14

    def test_zero(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        assert np.all(state.u.samples == 0)
        assert np.all(state.v.samples == 0)

    def test_soliton_profile(self):
        x = np.linspace(-10, 10, 101)
        v = kdv_soliton_profile(x, 2.0)
        assert v.max() == pytest.approx(6.0)
        with pytest.raises(ValueError):
            kdv_soliton_profile(x, -1.0)

    def test_unknown_family(self, grid):
        with pytest.raises(ValueError):
            make_initial_data(InitialData(family="nope"), grid)

    def test_boundary_rejection(self, grid):
        # width comparable to the box: tails contaminate the boundary
        spec = InitialData(family="gaussian", width_u=20.0, width_v=20.0)
        with pytest.raises(ValueError):
            make_initial_data(spec, grid)


def u_nonlinearity(state, params):
    """-i*(alpha*u*v + beta*u*|u|^2), every product dealiased; the cubic is
    u times the quadratic |u|^2."""
    grid, u, v = state.grid, state.u.samples, state.v.samples
    uv = dealiased_product_samples(grid, [u, v])
    cubic = dealiased_product_samples(grid, [u, dealiased_product_samples(grid, [u, np.conj(u)])])
    return -1j * (params.alpha * uv + params.beta * cubic)


def v_flux_rate(state, params, form):
    """The nonlinear part of v_t in conservative form, -d/dx(v^2/2 -
    gamma*|u|^2) (the one the stepper uses), or advective form,
    -v*v_x + gamma*d/dx(|u|^2)."""
    grid, u, v = state.grid, state.u.samples, state.v.samples
    u_sq = dealiased_product_samples(grid, [u, np.conj(u)]).real
    if form == "conservative":
        v_sq = dealiased_product_samples(grid, [v, v]).real
        return -derivative_samples(grid, 0.5 * v_sq - params.gamma * u_sq).real
    vx = derivative_samples(grid, v).real
    vvx = dealiased_product_samples(grid, [v, vx]).real
    return (-vvx + params.gamma * derivative_samples(grid, u_sq)).real


class TestRhs:
    def test_u_rhs_zero_state(self, grid):
        # exactly zero even after a nonzero product on the same grid has
        # used the grid's work arrays
        rng = np.random.default_rng(5)
        dealiased_product_samples(grid, [rng.standard_normal(256), rng.standard_normal(256)])
        state = make_initial_data(InitialData(family="zero"), grid)
        assert np.all(u_nonlinearity(state, ModelParams(1.0, 1.0, 1.0)) == 0)

    def test_u_rhs_matches_pointwise(self, grid):
        # for band-limited smooth fields the dealiased product equals the
        # pointwise product
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.3,
                        width_u=2.0, width_v=2.0), grid
        )
        params = ModelParams(2.0, -1.0, 0.5)
        out = u_nonlinearity(state, params)
        u, v = state.u.samples, state.v.samples
        expected = -1j * (2.0 * u * v - 1.0 * u * np.abs(u) ** 2)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_v_rhs_forms_agree(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.3), grid
        )
        params = ModelParams(1.0, 0.0, 2.0)
        a = v_flux_rate(state, params, "conservative")
        b = v_flux_rate(state, params, "advective")
        assert np.max(np.abs(a - b)) < 1e-10

    def test_v_rhs_zero_mean(self, grid):
        # the conservative form is a perfect x-derivative
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.3), grid
        )
        out = v_flux_rate(state, ModelParams(1.0, 1.0, 1.0), "conservative")
        assert abs(integrate(out, grid)) < 1e-13
