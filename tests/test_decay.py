"""Tests for windowed energies, the liminf surrogate, accumulators and the
smallness gate."""

import numpy as np
import pytest

from skdv.conservation import SmallnessReport
from skdv.decay import (
    ACCUMULATOR_TAGS,
    WindowSpec,
    _DENSITIES,
    liminf_tracker,
    make_accumulators,
    smallness_gate_check,
    weighted_accumulator_step,
    windowed_energy,
)
from skdv.model import InitialData, ModelParams, SystemState, boundary_mass, make_initial_data
from skdv.spectral import ComplexField, RealField, SpectralGrid
from skdv.virial import VirialConfig, Weights


@pytest.fixture
def grid():
    return SpectralGrid(1024, 64.0)


def _at_time(state, t):
    return SystemState(state.u, state.v, t)


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(exponent=0.7)
        with pytest.raises(ValueError):
            WindowSpec(exponent=0.5, center_exponent=0.8)
        with pytest.raises(ValueError):
            WindowSpec(exponent=0.5, window_constant=0.0)

    def test_interval(self):
        w = WindowSpec(exponent=0.5, center_exponent=0.5, window_constant=2.0)
        lo, hi = w.interval(4.0)
        assert (lo, hi) == pytest.approx((-2.0, 6.0))


class TestWindowedEnergy:
    def test_zero_state(self, grid):
        state = _at_time(make_initial_data(InitialData(family="zero"), grid), 4.0)
        params = ModelParams(1.0, 1.0, 1.0)
        for kind in ("mixed", "coupling", "grad_v", "grad_u", "power_u", "power_v"):
            assert windowed_energy(state, WindowSpec(0.5), kind, params).value == 0.0

    def test_mixed_exact_cancellation(self, grid):
        # v = sqrt(2 gamma) |u| makes v^2/2 - gamma |u|^2 vanish identically
        u = np.exp(-grid.x**2) * (1.0 + 0j)
        v = np.sqrt(2.0 * 2.0) * np.abs(u)
        state = SystemState(ComplexField(grid, u), RealField(grid, v), 4.0)
        out = windowed_energy(state, WindowSpec(0.5), "mixed", ModelParams(1.0, 0.0, 2.0))
        assert out.value < 1e-15

    def test_fine_grid_oracle(self, grid):
        # narrow Gaussians leave the window edge values at round-off level,
        # so an 8x finer evaluation must agree to high precision
        params = ModelParams(1.0, 1.0, 1.0)
        spec = InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.4,
                           width_u=0.5, width_v=0.5)
        window = WindowSpec(0.5)
        coarse_state = _at_time(make_initial_data(spec, grid), 4.0)
        fine_grid = SpectralGrid(8192, 64.0)
        fine_state = _at_time(make_initial_data(spec, fine_grid), 4.0)
        for kind in ("mixed", "coupling", "grad_v", "grad_u"):
            a = windowed_energy(coarse_state, window, kind, params).value
            b = windowed_energy(fine_state, window, kind, params).value
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("kind", list(_DENSITIES))
    def test_clipped_flag(self, grid, kind):
        # every kind reads the same window, so `skdv run` takes the flag of
        # its first windowed energy for all six
        state = _at_time(make_initial_data(InitialData(family="zero"), grid), 4.0)
        params = ModelParams(1.0, 1.0, 1.0)
        out = windowed_energy(state, WindowSpec(0.5, window_constant=100.0), kind, params, 2.5)
        assert out.clipped
        assert not windowed_energy(state, WindowSpec(0.5), kind, params, 2.5).clipped

    def test_monotone_in_constant(self, grid):
        state = _at_time(make_initial_data(InitialData(family="gaussian"), grid), 4.0)
        params = ModelParams(1.0, 1.0, 1.0)
        values = [
            windowed_energy(state, WindowSpec(0.5, window_constant=c), "mixed", params).value
            for c in (0.5, 1.0, 4.0, 16.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_requires_positive_time(self, grid):
        state = make_initial_data(InitialData(family="gaussian"), grid)
        with pytest.raises(ValueError):
            windowed_energy(state, WindowSpec(0.5), "mixed", ModelParams(1, 0, 1))

    @pytest.mark.parametrize("window,t", [
        (WindowSpec(0.5), 4.0),  # edges x = -2 and x = 2 fall on grid points
        (WindowSpec(0.5), 3.3),
        (WindowSpec(0.3, center_exponent=0.5, window_constant=2.5), 7.1),
        (WindowSpec(0.5, window_constant=100.0), 4.0),  # clipped by the box
    ])
    def test_window_cells_match_mask(self, grid, window, t):
        # the density is evaluated on the window's cells only; the value must
        # equal, bit for bit, the full density summed over the window mask
        spec = InitialData(family="modulated_gaussian", amplitude_u=0.6, amplitude_v=-0.4,
                           carrier=0.8)
        state = _at_time(make_initial_data(spec, grid), t)
        params = ModelParams(1.0, 0.5, 2.0)
        u, v = state.u.samples, state.v.samples
        full = {
            "mixed": np.abs(0.5 * v**2 - params.gamma * np.abs(u) ** 2),
            "coupling": np.abs(u) * np.abs(params.alpha * v + params.beta * np.abs(u) ** 2),
            "grad_v": state.v.dx.real ** 2,
            "grad_u": np.abs(state.u.dx) ** 2,
            "power_u": np.abs(u) ** 2.5,
            "power_v": np.abs(v) ** 2.5,
        }
        lo, hi = window.interval(t)
        mask = (grid.x >= lo) & (grid.x <= hi)
        assert mask.any()
        for kind, dens in full.items():
            got = windowed_energy(state, window, kind, params, 2.5).value
            assert got == float(grid.spacing * np.sum(dens[mask])), kind


class TestLiminfTracker:
    def test_constant_series(self):
        t = np.linspace(2.0, 100.0, 200)
        rep = liminf_tracker(t, np.full(200, 3.0))
        assert rep.running_min == 3.0
        assert rep.loglog_slope == pytest.approx(0.0, abs=1e-12)
        assert not rep.decayed

    def test_power_law_slope(self):
        t = np.geomspace(2.0, 2048.0, 5000)
        rep = liminf_tracker(t, 1.0 / t)
        assert rep.loglog_slope == pytest.approx(-1.0, abs=0.05)
        assert rep.decayed

    def test_validation(self):
        with pytest.raises(ValueError):
            liminf_tracker([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            liminf_tracker([], [])


class TestAccumulators:
    def test_tags_complete(self):
        acc = make_accumulators()
        assert set(acc) == set(ACCUMULATOR_TAGS)
        with pytest.raises(ValueError):
            make_accumulators(["bogus"])

    def test_chosen_tags_in_their_order(self):
        tags = ("quartic_u", "mixed_kdv", "gradient_v")
        acc = make_accumulators(tag for tag in tags)  # a generator is read once
        assert tuple(acc) == tags
        assert all(a.value == 0.0 and np.isnan(a.last_time) for a in acc.values())
        assert len({id(a) for a in acc.values()}) == len(tags)
        with pytest.raises(ValueError, match="bogus"):
            make_accumulators(tag for tag in ("mixed_kdv", "bogus"))

    def test_zero_fields_unchanged(self, grid):
        state = _at_time(make_initial_data(InitialData(family="zero"), grid), 2.0)
        acc = make_accumulators()
        for t in (2.0, 2.5, 3.0):
            weighted_accumulator_step(_at_time(state, t), VirialConfig(),
                                      ModelParams(1.0, 1.0, 1.0), acc)
        assert all(a.value == 0.0 for a in acc.values())

    def test_frozen_point_mass_log_growth(self, grid):
        """A v point mass at x = 0 makes the spatial integral time
        independent (the weights are exactly 1/2 each at the origin), so
        the accumulated integral is c * log(t1/t0) in closed form."""
        v = np.zeros(grid.num_points)
        j0 = grid.num_points // 2  # x = 0
        v[j0] = 1.0
        u = np.zeros(grid.num_points, dtype=complex)
        base = SystemState(ComplexField(grid, u), RealField(grid, v), 2.0)
        acc = make_accumulators()
        params = ModelParams(1.0, 1.0, 1.0)
        times = np.arange(2.0, 8.0 + 1e-9, 1e-3)
        for t in times:
            weighted_accumulator_step(_at_time(base, t), VirialConfig(), params, acc)
        c = 0.5 * grid.spacing * 0.25  # (v^2/2) * dx * w'(0) * g(0)
        expected = c * np.log(8.0 / 2.0)
        assert acc["mixed_kdv"].value == pytest.approx(expected, abs=1e-6)

    def test_monotone_and_early_time_rejected(self, grid):
        state = _at_time(make_initial_data(InitialData(family="gaussian"), grid), 2.0)
        acc = make_accumulators()
        params = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            weighted_accumulator_step(_at_time(state, 1.5), VirialConfig(), params, acc)
        prev = 0.0
        for t in (2.0, 3.0, 4.0):
            weighted_accumulator_step(_at_time(state, t), VirialConfig(), params, acc)
            assert acc["mixed_kdv"].value >= prev
            prev = acc["mixed_kdv"].value
        assert prev > 0.0


    def test_weights_argument_same_accumulators(self, grid):
        # the virial weights' wpg is the accumulator weight bit for bit
        state = make_initial_data(InitialData(family="modulated_gaussian", carrier=0.5), grid)
        cfg, params = VirialConfig(), ModelParams(1.0, 0.5, 1.0)
        plain, shared = make_accumulators(), make_accumulators()
        for t in (2.0, 2.25, 3.5):
            s = _at_time(state, t)
            weighted_accumulator_step(s, cfg, params, plain, 0.5)
            weighted_accumulator_step(_at_time(state, t), cfg, params, shared, 0.5,
                                      weights=Weights(grid, cfg, t))
        for tag in ACCUMULATOR_TAGS:
            assert (shared[tag].value, shared[tag].last_integrand) == (
                plain[tag].value, plain[tag].last_integrand), tag
        assert plain["mixed_kdv"].value > 0


class TestSmallnessGate:
    def _report(self, satisfied):
        return SmallnessReport(c_gn=0.9, c_abg=1.0, c_abg_intro=1.0, phi=0.1,
                               criterion_lhs=0.01 if satisfied else 10.0,
                               criterion_rhs=1.0, satisfied=satisfied)

    def test_v_zero_trivial(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        rep = smallness_gate_check([state], ModelParams(1.0, -0.1, 1.0), self._report(True))
        assert rep.applicable
        assert rep.min_value == pytest.approx(1.0)
        assert rep.holds

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="empty trajectory"):
            smallness_gate_check([], ModelParams(1.0, -0.1, 1.0), self._report(True))

    def test_not_applicable(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        rep = smallness_gate_check([state], ModelParams(1.0, 0.5, 1.0), self._report(True))
        assert not rep.applicable
        rep = smallness_gate_check([state], ModelParams(1.0, -0.1, 1.0), self._report(False))
        assert not rep.applicable


class TestBoundaryMass:
    def test_centered_gaussian(self, grid):
        state = make_initial_data(InitialData(family="gaussian"), grid)
        assert boundary_mass(state) < 1e-12

    def test_boundary_supported(self, grid):
        v = np.where(np.abs(grid.x) >= 0.95 * grid.half_length, 1.0, 0.0)
        state = SystemState(
            ComplexField(grid, np.zeros(grid.num_points, complex)),
            RealField(grid, v), 0.0,
        )
        assert boundary_mass(state) == pytest.approx(1.0)

    def test_zero_state(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        assert boundary_mass(state) == 0.0
