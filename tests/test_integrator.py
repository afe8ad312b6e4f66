"""Tests for the split-step integrator."""

import numpy as np
import pytest

from skdv.integrator import BlowUpError, StepperConfig, dispersion_step, run
from skdv.model import InitialData, ModelParams, SystemState, make_initial_data
from skdv.spectral import ComplexField, RealField, SpectralGrid, integrate


@pytest.fixture
def grid():
    return SpectralGrid(256, 32.0)


def _state(grid, u, v, t=0.0):
    return SystemState(ComplexField(grid, u), RealField(grid, v), t)


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=-1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=1e-3, t_end=1.0, scheme="rk4")
        with pytest.raises(ValueError):
            StepperConfig(dt=1e-3, t_end=1.0, snapshot_stride=0)


class TestDispersionStep:
    def test_single_mode_exact(self, grid):
        # u mode k: phase exp(-i k^2 t); v mode k: phase exp(i k^3 t)
        k = 2.0 * np.pi * 4 / 64.0
        u = np.exp(1j * k * grid.x)
        v = np.cos(k * grid.x)
        out = dispersion_step(_state(grid, u, v), 0.3)
        assert np.max(np.abs(out.u.samples - u * np.exp(-1j * k**2 * 0.3))) < 1e-12
        exact_v = np.cos(k * (grid.x + k**2 * 0.3))
        assert np.max(np.abs(out.v.samples - exact_v)) < 1e-12

    def test_time_advances(self, grid):
        out = dispersion_step(_state(grid, np.zeros(256, complex), np.zeros(256), 1.0), 0.5)
        assert out.time == pytest.approx(1.5)


class TestRun:
    def test_t_end_must_be_multiple(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        cfg = StepperConfig(dt=3e-3, t_end=1.0)
        with pytest.raises(ValueError):
            run(state, cfg, ModelParams(1.0, 0.0, 1.0))

    def test_zero_data_stays_zero(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        res = run(state, StepperConfig(dt=1e-2, t_end=0.1), ModelParams(1.0, 1.0, 1.0))
        assert np.all(res.final_state.u.samples == 0)
        assert np.all(res.final_state.v.samples == 0)

    def test_mass_and_mean_invariant(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5), grid
        )
        params = ModelParams(1.0, 1.0, 1.0)
        res = run(state, StepperConfig(dt=1e-3, t_end=0.5), params)
        m0 = integrate(np.abs(state.u.samples) ** 2, grid)
        m1 = integrate(np.abs(res.final_state.u.samples) ** 2, grid)
        assert abs(m1 - m0) / m0 < 1e-12
        assert abs(integrate(res.final_state.v) - integrate(state.v)) < 1e-12

    def test_snapshot_times(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        res = run(state, StepperConfig(dt=1e-2, t_end=0.1, snapshot_stride=5),
                  ModelParams(1.0, 0.0, 1.0))
        times = [s.time for s in res.snapshots]
        assert times == pytest.approx([0.0, 0.05, 0.1])

    def test_per_step_called(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        seen = []
        run(state, StepperConfig(dt=1e-2, t_end=0.05), ModelParams(1.0, 0.0, 1.0),
            per_step=lambda s: seen.append(s.time))
        assert len(seen) == 5

    def test_strang_beats_lie(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5), grid
        )
        params = ModelParams(1.0, 1.0, 1.0)
        ref = run(state, StepperConfig(dt=1.25e-4, t_end=0.2), params).final_state
        errs = {}
        for scheme in ("strang", "lie"):
            out = run(state, StepperConfig(dt=2e-3, t_end=0.2, scheme=scheme),
                      params).final_state
            errs[scheme] = np.max(np.abs(out.u.samples - ref.u.samples))
        assert errs["strang"] < errs["lie"] / 5

    def test_h1_guard_raises(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5), grid
        )
        cfg = StepperConfig(dt=1e-3, t_end=0.1, h1_cap=1e-6)
        with pytest.raises(BlowUpError):
            run(state, cfg, ModelParams(1.0, 1.0, 1.0))

    def test_blowup_on_overflow(self):
        # huge focusing data on a coarse grid with a large step overflows
        grid = SpectralGrid(64, 8.0)
        u = 50.0 * np.exp(-grid.x**2) * (1.0 + 0j)
        v = -50.0 * np.exp(-grid.x**2)
        state = _state(grid, u, v)
        with pytest.raises(BlowUpError):
            run(state, StepperConfig(dt=0.5, t_end=50.0),
                ModelParams(5.0, -5.0, 5.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_keeps_finite_trajectory(self):
        grid = SpectralGrid(64, 8.0)
        u = 50.0 * np.exp(-grid.x**2) * (1.0 + 0j)
        v = -50.0 * np.exp(-grid.x**2)
        with pytest.raises(BlowUpError) as info:
            run(_state(grid, u, v), StepperConfig(dt=0.5, t_end=50.0),
                ModelParams(5.0, -5.0, 5.0))
        exc = info.value
        last = exc.result.final_state
        assert last.time == pytest.approx(exc.time - 0.5)
        assert np.all(np.isfinite(last.u.samples)) and np.all(np.isfinite(last.v.samples))
        assert [s.time for s in exc.result.snapshots] == pytest.approx(
            np.arange(0.0, exc.time, 0.5))


class TestExactSymmetries:
    """Translation by whole cells and a global phase on u are exact
    symmetries of the system and of its discretization, so they hold to
    round-off after many steps."""

    PARAMS = ModelParams(1.0, 1.0, 1.0)
    STEPPER = StepperConfig(dt=1e-2, t_end=5.0, snapshot_stride=10**9)  # 500 steps

    @pytest.fixture
    def state0(self, grid):
        return make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=0.5, amplitude_v=0.4,
                        width_u=2.0, width_v=1.5, carrier=0.5), grid)

    def test_translation_by_whole_cells(self, grid, state0):
        shift = 37
        moved = _state(grid, np.roll(state0.u.samples, shift), np.roll(state0.v.samples, shift))
        a = run(state0, self.STEPPER, self.PARAMS).final_state
        b = run(moved, self.STEPPER, self.PARAMS).final_state
        assert np.max(np.abs(b.u.samples - np.roll(a.u.samples, shift))) < 1e-12
        assert np.max(np.abs(b.v.samples - np.roll(a.v.samples, shift))) < 1e-12

    def test_global_phase_on_u(self, grid, state0):
        phase = np.exp(0.7j)
        rotated = _state(grid, phase * state0.u.samples, state0.v.samples)
        a = run(state0, self.STEPPER, self.PARAMS).final_state
        b = run(rotated, self.STEPPER, self.PARAMS).final_state
        assert np.max(np.abs(b.u.samples - phase * a.u.samples)) < 1e-12
        assert np.max(np.abs(b.v.samples - a.v.samples)) < 1e-12


class TestConvergenceOrder:
    def test_strang_second_order(self, grid):
        state = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5), grid
        )
        params = ModelParams(1.0, 1.0, 1.0)
        ref = run(state, StepperConfig(dt=6.25e-5, t_end=0.2), params).final_state
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            out = run(state, StepperConfig(dt=dt, t_end=0.2), params).final_state
            errs.append(
                np.sqrt(grid.spacing * np.sum(np.abs(out.u.samples - ref.u.samples) ** 2))
            )
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.8
