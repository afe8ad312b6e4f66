"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test prints a single pass/fail line with the measured quantities and
then asserts the same condition; the project pytest config reports captured
output of passing tests so the lines appear in plain pytest logs.
"""

import numpy as np
import pytest

from skdv.conservation import (
    c_alpha_beta_gamma,
    mass,
    phi_of_norms,
    phi_smallness,
)
from skdv.decay import ACCUMULATOR_TAGS, WindowSpec, liminf_tracker, smallness_gate_check
from skdv.experiments import analytic_errors, decay_scan, drift_halving, identity_window
from skdv.integrator import StepperConfig, run
from skdv.model import InitialData, ModelParams, SystemState, make_initial_data
from skdv.momentum import drift_check, moment_sample, predicted_slope
from skdv.spectral import ComplexField, RealField, SpectralGrid, integrate, l2_norm
from skdv.virial import (
    VirialConfig,
    check_key_identities,
    weight_derivative_bounds,
    weight_g,
    weight_w,
)


def _verdict(num, label, ok):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_01_exact_invariants(self):
        grid = SpectralGrid(1024, 64.0)
        spec = InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5,
                           width_u=2.0, width_v=2.0)
        state0 = make_initial_data(spec, grid)
        m0 = mass(state0)
        v0_int = integrate(state0.v.samples, grid)
        worst_mass = worst_vint = 0.0
        for beta in (0.0, 1.0, -0.1):
            params = ModelParams(1.0, beta, 1.0)
            res = run(state0, StepperConfig(dt=1e-3, t_end=10.0, snapshot_stride=10**9),
                      params, keep_snapshots=False)
            final = res.final_state
            worst_mass = max(worst_mass, abs(mass(final) - m0) / m0)
            worst_vint = max(worst_vint, abs(integrate(final.v.samples, grid) - v0_int))
        ok = worst_mass < 1e-11 and worst_vint < 1e-11
        _verdict(1, f"exact invariants (mass drift {worst_mass:.2e}, "
                    f"v-integral drift {worst_vint:.2e})", ok)

    def test_criterion_02_conserved_quantity_convergence(self):
        grid = SpectralGrid(1024, 64.0)
        params = ModelParams(1.0, 1.0, 1.0)
        state0 = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.5, amplitude_v=0.5,
                        width_u=2.0, width_v=2.0), grid)
        drifts = drift_halving(state0, params, (4e-3, 2e-3, 1e-3), 5.0)
        ratios = [(drifts[j - 1][1] / drifts[j][1], drifts[j - 1][2] / drifts[j][2])
                  for j in (1, 2)]
        ok = all(rq >= 3.5 and re >= 3.5 for rq, re in ratios)
        _verdict(2, "Q/E drift halving ratios "
                    + ", ".join(f"({rq:.2f}, {re:.2f})" for rq, re in ratios), ok)

    def test_criterion_03_analytic_solutions(self):
        err_u, err_v = analytic_errors(SpectralGrid(1024, 64.0))
        ok = err_u < 1e-9 and err_v < 1e-3
        _verdict(3, f"analytic solutions (dispersive {err_u:.2e}, soliton {err_v:.2e})", ok)

    def test_criterion_04_weight_identities(self):
        x = np.linspace(-40.0, 40.0, 8001)
        h = 1e-5
        fd = (weight_w(x + h) - weight_w(x - h)) / (2.0 * h)
        deriv_err = float(np.max(np.abs(fd - weight_g(x))))
        rep = weight_derivative_bounds()
        ok = deriv_err < 1e-10 and np.isfinite(rep.smallest_c)
        _verdict(4, f"weight identities (|w'-g| {deriv_err:.2e}, "
                    f"envelope constant {rep.smallest_c:.3f})", ok)

    def test_criterion_05_algebraic_identities(self):
        grid = SpectralGrid(256, 16.0)
        rng = np.random.default_rng(42)
        worst = 0.0
        for alpha, beta, gamma in ((1.0, 1.0, 1.0), (2.0, -0.5, 0.7), (0.3, -1.2, 2.1)):
            u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            v = rng.standard_normal(256)
            state = SystemState(ComplexField(grid, u), RealField(grid, v), 1.0)
            rep = check_key_identities(state, ModelParams(alpha, beta, gamma))
            worst = max(worst, rep.cubic_split_max_err / rep.scale,
                        rep.quartic_max_err / rep.scale,
                        rep.u_cubed_max_err / rep.scale)
        ok = worst < 1e-12
        _verdict(5, f"algebraic identities (worst relative error {worst:.2e})", ok)

    def test_criterion_06_virial_identity_residuals(self):
        grid = SpectralGrid(512, 32.0)
        params = ModelParams(1.0, 1.0, 1.0)
        state0 = make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=0.5, amplitude_v=0.4,
                        width_u=2.0, width_v=2.0, carrier=0.5), grid)
        # rows (dt, |res_prop2|, |res_prop3|, |res_combined|, coefficient sum)
        rows = identity_window(state0, params, VirialConfig(), (2e-3, 1e-3, 5e-4), 3.0)
        orders = [min(np.log2(rows[j - 1][k] / rows[j][k]) for k in (1, 2, 3))
                  for j in (1, 2)]
        ok = all(o >= 1.9 for o in orders) and rows[-1][4] == 0.0
        _verdict(6, f"virial residual orders {orders[0]:.2f}, {orders[1]:.2f}; "
                    f"cancellation coefficient {rows[-1][4]:.1e}", ok)

    def test_criterion_07_finite_horizon_decay(self):
        grid = SpectralGrid(8192, 1024.0)
        params = ModelParams(1.0, 1.0, 1.0)
        state0 = make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=0.25, amplitude_v=0.0,
                        width_u=1.0, carrier=0.75), grid)
        scan = decay_scan(state0, StepperConfig(dt=0.01, t_end=200.0, snapshot_stride=100),
                          params, WindowSpec(exponent=0.5), VirialConfig(), 0.5)
        acc_series = scan.acc_rows  # one row per snapshot, each at t >= 2

        t = np.array(scan.times)
        blocks = np.floor(np.log2(t)).astype(int)  # dyadic blocks [2^j, 2^{j+1})
        labels = sorted(set(blocks))
        reports = [liminf_tracker(scan.times, vals) for vals in (scan.mixed, scan.grad_v)]
        ratios = [r.block_minima[0] / r.block_minima[-1] for r in reports]
        decay_ok = all(r.decayed for r in reports)  # last block minimum 10x below the first

        finite_ok = all(np.isfinite(acc_series[-1][tag]) for tag in ACCUMULATOR_TAGS)
        monotone_ok = True
        for tag in ACCUMULATOR_TAGS:
            vals = np.array([row[tag] for row in acc_series])
            increments = []
            for j in labels:
                idx = np.nonzero(blocks == j)[0]
                increments.append(vals[idx[-1]] - (vals[idx[0] - 1] if idx[0] > 0 else 0.0))
            last3 = increments[-3:]
            monotone_ok = monotone_ok and last3[0] > last3[1] > last3[2]

        ok = decay_ok and finite_ok and monotone_ok
        _verdict(7, f"finite-horizon decay (block-min ratios mixed {ratios[0]:.1f}x, "
                    f"grad-v {ratios[1]:.1f}x; accumulators finite={finite_ok}, "
                    f"tails monotone={monotone_ok})", ok)

    def test_criterion_08_smallness_gate(self):
        grid = SpectralGrid(1024, 64.0)
        params = ModelParams(1.0, -0.1, 1.0)
        amp = 0.25
        report = None
        for _ in range(60):
            state0 = make_initial_data(
                InitialData(family="gaussian", amplitude_u=amp, amplitude_v=amp,
                            width_u=2.0, width_v=2.0), grid)
            report = phi_smallness(state0, params)
            if report.satisfied:
                break
            amp *= 0.5
        assert report is not None and report.satisfied

        res = run(state0, StepperConfig(dt=1e-3, t_end=5.0, snapshot_stride=100), params,
                  keep_snapshots=True)
        gate = smallness_gate_check(res.snapshots, params, report)
        ok = gate.applicable and gate.holds
        _verdict(8, f"smallness gate (admissible amplitude {amp:.6g}, "
                    f"pointwise min {gate.min_value:.5f} >= {gate.threshold}) ", ok)

    def test_criterion_09_momentum_laws(self):
        # slope of F: data with u0 = 0 so the predicted rate is -Q(0)/gamma
        grid = SpectralGrid(1024, 64.0)
        params = ModelParams(1.0, 1.0, 1.0)
        state0 = make_initial_data(
            InitialData(family="gaussian", amplitude_u=0.0, amplitude_v=0.5,
                        width_v=2.0), grid)
        slope = predicted_slope(state0, params)
        u0_sq = l2_norm(state0.u) ** 2
        samples = []

        def collect(s, _samples=samples):
            _samples.append(moment_sample(s, params))

        run(state0, StepperConfig(dt=1e-3, t_end=5.0, snapshot_stride=25),
            params, on_snapshot=collect, keep_snapshots=False)
        rep = drift_check(samples, params, slope, u0_sq)
        slope_ok = rep.slope_rel_error < 0.01

        # dB/dt law: second-order self-convergence of the per-interval error.
        # The box must be wide enough that no dispersive radiation reaches the
        # periodic boundary by t = 2; the x-weighted moment otherwise picks up
        # a dt-independent boundary flux that floors the convergence.
        grid_b = SpectralGrid(4096, 256.0)
        state_b = make_initial_data(
            InitialData(family="modulated_gaussian", amplitude_u=0.5, amplitude_v=0.4,
                        width_u=2.0, width_v=2.0, carrier=0.5), grid_b)
        slope_b = predicted_slope(state_b, params)
        u0_sq_b = l2_norm(state_b.u) ** 2
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            rows = []

            def collect_b(s, _rows=rows):
                _rows.append(moment_sample(s, params))

            run(state_b, StepperConfig(dt=dt, t_end=2.0, snapshot_stride=50),
                params, on_snapshot=collect_b, keep_snapshots=False)
            errors.append(drift_check(rows, params, slope_b, u0_sq_b).db_dt_max_error)
        orders = [np.log2(errors[j - 1] / errors[j]) for j in (1, 2)]
        db_ok = all(o >= 1.9 for o in orders)

        ok = slope_ok and db_ok
        _verdict(9, f"momentum laws (F slope error {rep.slope_rel_error:.2%}, "
                    f"dB/dt orders {orders[0]:.2f}, {orders[1]:.2f})", ok)

    def test_criterion_10_phi_evaluator(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def reference_phi(alpha, beta, gamma, c, na, nb):
            a, b, g = abs(mp.mpf(alpha)), abs(mp.mpf(beta)), abs(mp.mpf(gamma))
            c = mp.mpf(c)
            mu = min(g, a / 2)
            t1 = 2 + 2 * g / a + 8 * g**2 / a**2
            t2 = (4 * (c * a * g + 2 * a + 3 * g + 32 * g**2 / mu) + 2 * b * g * c) / mu
            t3 = 32 * (a * g**2 + b * g / 2) ** 2 / mu**2 * c**8
            t4 = (c**24 * 2**22 / (mu ** mp.mpf("4/3") * a ** mp.mpf("1/3"))
                  * ((a + 2 * g) ** mp.mpf("5/3")
                     + g**10 / (mu ** mp.mpf("20/3") * a ** mp.mpf("5/3"))))
            big_c = t1 + t2 + t3 + t4
            na, nb = mp.mpf(na), mp.mpf(nb)
            return mp.sqrt(big_c) * (na + nb + na**5 + nb**5)

        tuples = [
            (1.0, -0.1, 1.0, 0.9, 0.1, 0.2),
            (2.0, -1.0, 0.5, 0.85, 0.05, 0.3),
            (0.7, -0.3, 1.3, 0.9, 0.5, 0.5),
            (1.5, -0.01, 2.0, 0.95, 0.01, 0.02),
            (0.4, -2.0, 0.9, 0.88, 0.2, 0.1),
        ]
        worst = 0.0
        for alpha, beta, gamma, c, na, nb in tuples:
            params = ModelParams(alpha, beta, gamma)
            got = phi_of_norms(na, nb, c_alpha_beta_gamma(params, c))
            ref = float(reference_phi(alpha, beta, gamma, c, na, nb))
            worst = max(worst, abs(got - ref) / ref)

        zero_ok = phi_of_norms(0.0, 0.0, c_alpha_beta_gamma(ModelParams(1.0, -1.0, 1.0), 0.9)) == 0.0
        c_fixed = c_alpha_beta_gamma(ModelParams(1.0, -0.1, 1.0), 0.9)
        base = phi_of_norms(0.1, 0.1, c_fixed)
        mono_ok = (phi_of_norms(0.2, 0.1, c_fixed) > base
                   and phi_of_norms(0.1, 0.2, c_fixed) > base)

        ok = worst < 1e-10 and zero_ok and mono_ok
        _verdict(10, f"smallness functional evaluator (worst relative error {worst:.2e}, "
                     f"zero at origin={zero_ok}, monotone={mono_ok})", ok)
