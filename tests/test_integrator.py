"""Tests for the split-step integrator."""

import numpy as np
import pytest
from solitary_waves import solitary_wave

from skdv import conservation
from skdv.integrator import (
    BlowUpError,
    StepperConfig,
    _disperse,
    _dispersion_factors,
    _Work,
    run,
)
from skdv.model import (
    BOUNDARY_TOLERANCE,
    InitialData,
    ModelParams,
    SystemState,
    boundary_mass,
    make_initial_data,
)
from skdv.spectral import (
    ComplexField,
    RealField,
    SpectralGrid,
    dealiased_product_samples,
    integrate,
)


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
        work = _Work(_state(grid, u, v))
        _disperse(work, _dispersion_factors(grid, 0.3))
        assert np.max(np.abs(work.u - u * np.exp(-1j * k**2 * 0.3))) < 1e-12
        exact_v = np.cos(k * (grid.x + k**2 * 0.3))
        assert np.max(np.abs(work.v.real - exact_v)) < 1e-12


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
        assert abs(integrate(res.final_state.v.samples, grid)
                   - integrate(state.v.samples, grid)) < 1e-12

    def test_snapshot_times(self, grid):
        state = make_initial_data(InitialData(family="zero"), grid)
        res = run(state, StepperConfig(dt=1e-2, t_end=0.1, snapshot_stride=5),
                  ModelParams(1.0, 0.0, 1.0), keep_snapshots=True)
        times = [s.time for s in res.snapshots]
        assert times == pytest.approx([0.0, 0.05, 0.1])

    def test_streams_unless_asked_to_keep(self, grid):
        # by default every snapshot goes to the callback and none is held
        state = make_initial_data(InitialData(family="gaussian"), grid)
        stepper = StepperConfig(dt=1e-2, t_end=0.1, snapshot_stride=2)
        params = ModelParams(1.0, 1.0, 1.0)
        seen = []
        res = run(state, stepper, params, on_snapshot=seen.append)
        assert res.snapshots == []
        assert [s.time for s in seen] == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
        kept = run(state, stepper, params, keep_snapshots=True)
        assert [s.time for s in kept.snapshots] == [s.time for s in seen]
        assert kept.snapshots[-1].u.samples.tobytes() == res.final_state.u.samples.tobytes()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
                ModelParams(5.0, -5.0, 5.0), keep_snapshots=True)
        exc = info.value
        last = exc.result.final_state
        assert last.time == pytest.approx(exc.time - 0.5)
        assert np.all(np.isfinite(last.u.samples)) and np.all(np.isfinite(last.v.samples))
        assert [s.time for s in exc.result.snapshots] == pytest.approx(
            np.arange(0.0, exc.time, 0.5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_keeps_last_finite_step_between_snapshots(self):
        # the last finite step is handed out as the final state although it
        # is no snapshot, and only the strided snapshots before it are kept
        # (this data blows up at step 7; dt is a power of two, so the
        # times are exact)
        grid = SpectralGrid(64, 8.0)
        u = 10.0 * np.exp(-grid.x**2) * (1.0 + 0j)
        v = -10.0 * np.exp(-grid.x**2)
        dt, stride = 0.0625, 4
        with pytest.raises(BlowUpError) as info:
            run(_state(grid, u, v), StepperConfig(dt=dt, t_end=50.0, snapshot_stride=stride),
                ModelParams(1.0, 0.0, 0.0), keep_snapshots=True)
        exc = info.value
        last = exc.result.final_state
        assert last.time == exc.time - dt
        assert round(last.time / dt) % stride != 0
        assert np.all(np.isfinite(last.u.samples)) and np.all(np.isfinite(last.v.samples))
        assert [s.time for s in exc.result.snapshots] == pytest.approx(
            np.arange(0.0, exc.time, stride * dt))


def literal_run(state, dt, n_steps, scheme, params):
    """The stepper as first written, allocating every array: the literal
    oracle that ``run`` must match bit for bit."""
    grid = state.grid
    k = grid.wavenumbers
    nyquist_zeroed = np.ones(grid.num_points)
    nyquist_zeroed[grid.num_points // 2] = 0.0
    ik = 1j * k * nyquist_zeroed
    h = 0.5 * dt if scheme == "strang" else dt
    fu, fv = np.exp(-1j * k**2 * h), np.exp(1j * k**3 * h)

    def disperse(u, v):
        return np.fft.ifft(np.fft.fft(u) * fu), np.fft.ifft(np.fft.fft(v) * fv).real

    def nonlinear(u, v):
        u_sq = dealiased_product_samples(grid, [u, np.conj(u)]).real
        gamma_term = params.gamma * u_sq

        def flux(w):
            w_sq = dealiased_product_samples(grid, [w, w]).real
            return -np.fft.ifft(ik * np.fft.fft(0.5 * w_sq - gamma_term)).real

        k1 = flux(v)
        k2 = flux(v + 0.5 * dt * k1)
        k3 = flux(v + 0.5 * dt * k2)
        k4 = flux(v + dt * k3)
        v_new = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v_avg = 0.5 * (v + v_new)
        u_new = u * np.exp(-1j * (params.alpha * v_avg + params.beta * np.abs(u) ** 2) * dt)
        return u_new, v_new

    u, v = state.u.samples, state.v.samples
    for _ in range(n_steps):
        u, v = nonlinear(*disperse(u, v))
        if scheme == "strang":
            u, v = disperse(u, v)
    return u, v


class TestWorkArrays:
    """The stepper runs in preallocated work arrays; it must give the bits
    of the allocating formulas and hand out states of their own."""

    PARAMS = ModelParams(1.0, 0.7, 1.3)

    @staticmethod
    def _state0(grid):
        return make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=0.6, amplitude_v=0.5,
                        width_u=2.0, width_v=1.5, carrier=0.75), grid)

    @pytest.fixture
    def state0(self, grid):
        return self._state0(grid)

    @pytest.mark.parametrize("scheme, n, steps", [
        pytest.param("strang", 256, 200, id="strang"),
        pytest.param("lie", 256, 200, id="lie"),
        pytest.param("strang", 8192, 3, id="strang-8192"),
        pytest.param("lie", 8192, 3, id="lie-8192"),
    ])
    def test_matches_literal_stepper(self, scheme, n, steps):
        state0 = self._state0(SpectralGrid(n, n / 8.0))
        dt = 5e-3
        cfg = StepperConfig(dt=dt, t_end=steps * dt, scheme=scheme, snapshot_stride=10**9)
        out = run(state0, cfg, self.PARAMS, keep_snapshots=False).final_state
        u, v = literal_run(state0, dt, steps, scheme, self.PARAMS)
        assert out.u.samples.tobytes() == u.tobytes()
        assert out.v.samples.tobytes() == v.tobytes()

    @pytest.mark.parametrize("scheme", ["strang", "lie"])
    def test_states_do_not_alias(self, state0, scheme):
        copies = []

        def keep_copy(s):
            copies.append((s, s.u.samples.copy(), s.v.samples.copy()))

        cfg = StepperConfig(dt=5e-3, t_end=0.1, scheme=scheme)  # every step a snapshot
        res = run(state0, cfg, self.PARAMS, on_snapshot=keep_copy, keep_snapshots=True)
        assert len(res.snapshots) == len(copies) == 21
        states = [s for s, _, _ in copies] + res.snapshots + [res.final_state]
        for s, u, v in copies:
            assert s.u.samples.tobytes() == u.tobytes()
            assert s.v.samples.tobytes() == v.tobytes()
        # the states of one step share their arrays; those of two steps not
        arrays = [(s.time, a) for s in states for a in (s.u.samples, s.v.samples)]
        for i, (t, a) in enumerate(arrays):
            for t_b, b in arrays[i + 1 :]:
                assert t_b == t or not np.shares_memory(a, b)

    @pytest.mark.parametrize("scheme", ["strang", "lie"])
    def test_v_is_a_real_array_of_its_own(self, state0, scheme):
        # v of each state is a contiguous float64 array, not the real view
        # of a complex buffer, and holds the bits of the literal stepper
        dt = 5e-3
        cfg = StepperConfig(dt=dt, t_end=20 * dt, scheme=scheme, snapshot_stride=7)
        res = run(state0, cfg, self.PARAMS, keep_snapshots=True)
        assert len(res.snapshots) == 4  # t = 0 and steps 7, 14 and 20
        for s in res.snapshots[1:]:
            v = s.v.samples
            assert v.dtype == np.float64 and v.flags.c_contiguous
            assert v.base is None or v.base.dtype == np.float64
        _, v = literal_run(state0, dt, 20, scheme, self.PARAMS)
        assert res.final_state.v.samples.tobytes() == v.tobytes()

    # the id names the rows transformed per step, which pairing rows into
    # two-row calls leaves as they were
    @pytest.mark.parametrize("scheme, calls, rows", [
        pytest.param("strang", 32, 38, id="strang-38"),
        pytest.param("lie", 30, 34, id="lie-34"),
    ])
    def test_fft_calls_per_step(self, state0, monkeypatch, scheme, calls, rows):
        # counted through the public numpy.fft functions, the ones the
        # benchmark's tracer wraps; a call transforms one row per entry of
        # its input's leading dimensions
        counts, row_count = {}, [0]
        for name in ("fft", "ifft", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                row_count[0] += int(np.prod(np.shape(a)[:-1]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        cfg = StepperConfig(dt=1e-2, t_end=0.05, scheme=scheme)
        run(state0, cfg, self.PARAMS)
        assert sum(counts.values()) == 5 * calls
        assert row_count[0] == 5 * rows
        assert set(counts) == {"fft", "ifft"}


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


    @pytest.mark.parametrize("lam", [2.0, 0.5])
    @pytest.mark.parametrize("coefficients", [(1.0, 1.0, 1.0), (0.7, -0.3, 1.9)])
    def test_coefficient_scaling(self, coefficients, lam):
        # (alpha, beta, gamma, u, v) -> (alpha, beta/lam^2, gamma/lam^2, lam*u, v)
        # takes solutions to solutions; for a power of two every product
        # scales exactly in binary, so the discrete run follows it bit for bit
        grid = SpectralGrid(512, 32.0)
        alpha, beta, gamma = coefficients
        params = ModelParams(alpha, beta, gamma)
        scaled_params = ModelParams(alpha, beta / lam**2, gamma / lam**2)
        state0 = make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=0.5, amplitude_v=0.4,
                        width_u=2.0, width_v=2.0, carrier=0.5), grid)
        scaled0 = _state(grid, lam * state0.u.samples, state0.v.samples)
        stepper = StepperConfig(dt=1e-2, t_end=3.0, snapshot_stride=10**9)  # 300 steps
        a = run(state0, stepper, params, keep_snapshots=False).final_state
        b = run(scaled0, stepper, scaled_params, keep_snapshots=False).final_state
        assert np.array_equal(b.u.samples, lam * a.u.samples)
        assert np.array_equal(b.v.samples, a.v.samples)
        assert conservation.mass(b) == lam**2 * conservation.mass(a)
        assert (conservation.q_momentum(b, scaled_params)
                == conservation.q_momentum(a, params))
        assert conservation.energy(b, scaled_params) == conservation.energy(a, params)


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


class TestCoupledSolitaryWaves:
    """Against the exact travelling waves of tests/solitary_waves.py, the one
    closed form whose u and v are both non-zero, so each coupling term of
    the stepper is checked against a known solution."""

    @pytest.mark.parametrize("params, kappa_sq, t_end, bound", [
        (ModelParams(0.7, 0.0, 1.9), 0.3, 1.0, 1e-5),
        (ModelParams(0.7, -0.3, 1.9), 0.6, 0.5, 5e-4),  # c = -3.09
    ], ids=["beta-zero", "beta-negative"])
    def test_error_and_order(self, params, kappa_sq, t_end, bound):
        grid = SpectralGrid(512, 32.0)
        state0 = _state(grid, *solitary_wave(params, kappa_sq, grid.x))
        assert boundary_mass(state0) < BOUNDARY_TOLERANCE
        exact = solitary_wave(params, kappa_sq, grid.x, t_end)
        errors = []  # (u, v) relative L2 errors at dt = 4e-3, then 2e-3
        for dt in (4e-3, 2e-3):
            final = run(state0, StepperConfig(dt=dt, t_end=t_end), params).final_state
            errors.append([np.linalg.norm(got - want) / np.linalg.norm(want)
                           for got, want in zip((final.u.samples, final.v.samples), exact)])
        orders = [np.log2(coarse / fine) for coarse, fine in zip(*errors)]
        assert max(errors[1]) < bound, errors
        assert all(1.9 <= order <= 2.1 for order in orders), orders
