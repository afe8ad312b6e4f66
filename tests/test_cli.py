"""Tests for config parsing, CSV emission and exit codes."""

import configparser
import gc
import weakref

import numpy as np
import pytest

from skdv import cli, conservation, decay, experiments, momentum, virial
from skdv.cli import (
    EXIT_BLOWUP,
    EXIT_BOUNDARY,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from skdv.integrator import run
from skdv.model import make_initial_data
from skdv.spectral import h1_norm

BASE_CONFIG = """\
[grid]
n = 256
l = 32.0

[stepper]
dt = 0.01
t_end = 0.1
snapshot_stride = 5

[model]
alpha = 1.0
beta = 0.0
gamma = 1.0

[initial]
family = gaussian
amplitude_u = 0.2
amplitude_v = 0.2

[output]
directory = {out}
"""

BLOWUP_CONFIG = """\
[grid]
n = 64
l = 16.0

[stepper]
dt = 0.5
t_end = 20.0

[model]
alpha = -1.0
beta = 2.0
gamma = -1.0

[initial]
family = gaussian
amplitude_u = 50.0
amplitude_v = 0.0
width_u = 2.0

[output]
directory = {out}
"""

EXPECTED_HEADERS = {
    "invariants.csv": "t,mass,q,energy,u_h1,v_h1,margin",
    "virial.csv": "t,J2,J3,res_prop2,res_prop3,res_combined",
    "decay.csv": ("t,window_p,window_m,E_mixed,E_coupling,E_gradu,E_gradv,"
                  "E_uk,E_vk,acc_mixed,acc_coupling,acc_gradu,acc_gradv,acc_quartic"),
    "moments.csv": "t,B,Umom,F,predicted_slope",
    "flags.csv": "t,boundary_mass,blowup,window_clipped",
}


def _rows(out, name):
    return [[float(x) for x in r.split(",")] for r in (out / name).read_text().splitlines()[2:]]


def _same(row, expected):
    """Bit-for-bit equality of a CSV row (written with 17 digits) and values."""
    assert len(row) == len(expected)
    for got, want in zip(row, expected):
        assert got == float(want) or (np.isnan(got) and np.isnan(want)), (row, expected)


def _write_config(tmp_path, text=None, name="run.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text if text is not None else BASE_CONFIG.format(out=out))
    return path, out


class TestLoadConfig:
    def test_defaults_and_values(self, tmp_path):
        path, out = _write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.grid.num_points == 256
        assert cfg.stepper.dt == 0.01
        assert cfg.params.alpha == 1.0
        assert cfg.virial.p1 == 0.25  # default
        assert cfg.window.exponent == 0.5  # default
        assert cfg.output_dir == out
        assert len(cfg.config_hash) == 64

    def test_unknown_section(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grd]\nn = 64\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grid]\nn = 64\nresolution = 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unparsable_value(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grid]\nn = sixty-four\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_physics_value(self, tmp_path):
        path, _ = _write_config(tmp_path, "[grid]\nn = 100\n")  # not a power of two
        with pytest.raises(ConfigError):
            load_config(path)

    def test_one_point_grid(self, tmp_path, capsys):
        # one point has no Nyquist mode for the dealiased products: rejected
        # before any stepping or output
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("n = 256", "n = 1").replace(
            "family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2", "family = zero")
        path, out = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="power of two >= 2"):
            load_config(path)
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("value, strict", [
        ("true", True), ("on", True), ("1", True), ("false", False), ("no", False)])
    def test_boolean_values(self, tmp_path, value, strict):
        text = BASE_CONFIG.format(out=tmp_path / "out") + f"strict = {value}\n"
        path, _ = _write_config(tmp_path, text)
        assert load_config(path).strict is strict

    def test_boolean_typo_rejected(self, tmp_path, capsys):
        # a typo must not read as False
        text = BASE_CONFIG.format(out=tmp_path / "out") + "strict = ture\n"
        path, out = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[output\] strict"):
            load_config(path)
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("section, key, value", [
        ("model", "alpha", "nan"), ("virial", "theta2", "inf"), ("grid", "l", "inf"),
        ("virial", "theta3", "nan"), ("virial", "theta3", "-inf"), ("stepper", "dt", "nan"),
        ("initial", "amplitude_u", "inf"), ("window", "power_exponent", "nan"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, capsys, section, key, value):
        # rejected where the value is read, before any stepping or output
        parser = configparser.ConfigParser()
        parser.read_string(BASE_CONFIG.format(out=tmp_path / "out"))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        path, out = tmp_path / "run.ini", tmp_path / "out"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main(["run", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: [{section}] {key}: ")
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("family, keys", [
        ("gaussian", "carrier = 3.0"),  # read only by modulated_gaussian
        ("gaussian", "speed = 7.0"),  # read only by kdv_soliton
        ("kdv_soliton", "amplitude_u = 0.2"),
        ("zero", "width_v = 2.0"),
        ("sum", ""),  # not a family
        ("custom", ""),  # not a family
        ("nope", ""),
    ], ids=["gaussian-carrier", "gaussian-speed", "kdv_soliton-amplitude_u", "zero-width_v",
            "sum", "custom", "unknown"])
    def test_initial_keys_the_family_reads(self, tmp_path, family, keys):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2",
            f"family = {family}\n{keys}")
        path, _ = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[initial\] family"):
            load_config(path)

    def test_seed_key_rejected(self, tmp_path):
        # nothing in a run is random, so a seed would be parsed and ignored
        text = BASE_CONFIG.format(out=tmp_path / "out") + "seed = 3\n"
        path, _ = _write_config(tmp_path, text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["run", str(path)]) == EXIT_CONFIG


class TestRunCommand:
    def test_outputs_and_headers(self, tmp_path):
        path, out = _write_config(tmp_path)
        assert main(["run", str(path)]) == EXIT_OK
        cfg = load_config(path)
        for name, header in EXPECTED_HEADERS.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == f"# config={cfg.config_hash}"
            assert lines[1] == header
            # snapshots at t = 0, 0.05, 0.1
            assert len(lines) == 2 + 3

    def test_zero_data_rows(self, tmp_path):
        # the zero family reads no amplitude, so the config sets none
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "family = gaussian\namplitude_u = 0.2\namplitude_v = 0.2", "family = zero"
        )
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_OK
        rows = (out / "invariants.csv").read_text().splitlines()[2:]
        for row in rows:
            t, m, q, e = row.split(",")[:4]
            assert float(m) == 0.0 and float(q) == 0.0 and float(e) == 0.0

    def test_deterministic(self, tmp_path):
        path, out = _write_config(tmp_path)
        main(["run", str(path)])
        first = {n: (out / n).read_bytes() for n in EXPECTED_HEADERS}
        main(["run", str(path)])
        second = {n: (out / n).read_bytes() for n in EXPECTED_HEADERS}
        assert first == second

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_exit_code(self, tmp_path):
        text = BLOWUP_CONFIG.format(out=tmp_path / "out")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        assert (out / "flags.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_keeps_rows_stride_1(self, tmp_path, capsys):
        # the step to t=1.5 overflows: every snapshot before it is written,
        # and only the last finite one carries the blow-up flag
        text = BLOWUP_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 20.0", "t_end = 20.0\nsnapshot_stride = 1")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        assert "blow-up detected at t=1.5" in capsys.readouterr().err
        for name in EXPECTED_HEADERS:
            rows = [r.split(",") for r in (out / name).read_text().splitlines()[2:]]
            assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0], name
        flags = [r.split(",") for r in (out / "flags.csv").read_text().splitlines()[2:]]
        assert [r[2] for r in flags] == ["0", "0", "1"]

    def test_residual_columns_match_public_functions(self, tmp_path, monkeypatch):
        # stride 1 past t = 2: the residual columns must equal the public
        # window functions bit for bit, with J2 and J3 evaluated once per
        # snapshot at t > 0
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dt = 0.01\nt_end = 0.1\nsnapshot_stride = 5",
            "dt = 0.05\nt_end = 2.3\nsnapshot_stride = 1",
        ).replace("beta = 0.0", "beta = 0.5")
        path, out = _write_config(tmp_path, text)
        cfg = load_config(path)
        calls = {"J2": 0, "J3": 0}
        for name in calls:
            original = getattr(virial, f"functional_{name}")

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(virial, f"functional_{name}", counted)
        assert main(["run", str(path)]) == EXIT_OK
        monkeypatch.undo()

        rows = [[float(x) for x in r.split(",")]
                for r in (out / "virial.csv").read_text().splitlines()[2:]]
        snaps = run(make_initial_data(cfg.initial, cfg.grid, boundary_threshold=1e-6),
                    cfg.stepper, cfg.params).snapshots
        assert len(rows) == len(snaps) == 47
        assert calls == {"J2": 46, "J3": 46}
        checked = 0
        for i, (s, row) in enumerate(zip(snaps, rows)):
            assert row[0] == s.time
            if i == 0:
                assert np.all(np.isnan(row[1:]))
                continue
            assert row[1] == virial.functional_J2(s, cfg.virial)
            assert row[2] == virial.functional_J3(s, cfg.virial, cfg.params)
            if s.time < 2 or i > len(snaps) - 3:
                assert np.all(np.isnan(row[3:]))
                continue
            window = snaps[i - 2 : i + 3]
            combined = virial.identity_residual_combined(window, cfg.virial, cfg.params)
            assert row[3] == virial.identity_residual_prop2(window, cfg.virial, cfg.params).residual
            assert row[4] == virial.identity_residual_prop3(window, cfg.virial, cfg.params).residual
            assert row[5] == combined.sample.residual
            assert (row[3], row[4]) == (combined.prop2.residual, combined.prop3.residual)
            checked += 1
        assert checked == 5  # centres t = 2.0 ... 2.2

        # the other four CSVs, row by row, against the public functions
        params, s0 = cfg.params, snaps[0]
        phi = conservation.phi_smallness(h1_norm(s0.u), h1_norm(s0.v), params,
                                         conservation.estimate_gn_constant(cfg.grid)).phi
        slope = momentum.predicted_slope(s0, params)
        acc = decay.make_accumulators()
        power = 2.0 + cfg.power_exponent
        tables = {name: _rows(out, name)
                  for name in ("invariants.csv", "decay.csv", "moments.csv", "flags.csv")}
        for i, s in enumerate(snaps):
            inv = conservation.invariant_sample(s, params)
            _same(tables["invariants.csv"][i], [s.time, inv.mass, inv.q_momentum, inv.energy,
                                                inv.u_h1, inv.v_h1, phi - (inv.u_h1 + inv.v_h1)])
            energies, clipped = [np.nan] * 6, False
            if s.time > 0:
                kinds = [("mixed", 4.0), ("coupling", 4.0), ("grad_u", 4.0), ("grad_v", 4.0),
                         ("power_u", power), ("power_v", power)]
                found = [decay.windowed_energy(s, cfg.window, k, params, p) for k, p in kinds]
                energies = [we.value for we in found]
                clipped = any(we.clipped for we in found[:4])
            if s.time >= 2:
                decay.weighted_accumulator_step(s, cfg.virial, params, acc, cfg.power_exponent)
            _same(tables["decay.csv"][i], [
                s.time, cfg.window.exponent, cfg.window.center_exponent, *energies,
                *(acc[tag].value for tag in ("mixed_kdv", "schrodinger_coupling",
                                             "gradient_u", "gradient_v", "quartic_u"))])
            ms = momentum.moment_sample(s, params, slope)
            _same(tables["moments.csv"][i], [s.time, ms.b_moment, ms.u_moment, ms.f_moment,
                                             ms.predicted_slope_f])
            _same(tables["flags.csv"][i], [s.time, decay.boundary_mass(s), 0, clipped])
        assert acc["mixed_kdv"].value > 0  # the accumulators ran

    def test_steps_with_keep_snapshots_false(self, tmp_path, monkeypatch):
        path, _ = _write_config(tmp_path)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("keep_snapshots"))
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "run_integrator", spy)
        assert main(["run", str(path)]) == EXIT_OK
        assert seen == [False]

    def test_holds_at_most_five_snapshots(self, tmp_path, monkeypatch):
        # the residual window keeps numbers, so a snapshot is released as
        # soon as its own callback returns and the stepper moves on; the
        # initial state is the stepper's own argument
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "snapshot_stride = 5", "snapshot_stride = 1")
        path, _ = _write_config(tmp_path, text)
        refs, dead = [], []

        def spy(*args, on_snapshot, **kwargs):
            def watched(s):
                refs.append(weakref.ref(s))
                on_snapshot(s)
                gc.collect()
                dead.append([r() is None for r in refs])

            return run(*args, on_snapshot=watched, **kwargs)

        monkeypatch.setattr(cli, "run_integrator", spy)
        assert main(["run", str(path)]) == EXIT_OK
        assert len(refs) == 11
        for i, released in enumerate(dead):
            assert released == [1 <= j <= i - 1 for j in range(i + 1)], i

    def test_two_snapshots(self, tmp_path):
        # fewer snapshots than one residual window still give a row each
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 0.1", "t_end = 0.05")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_OK
        for name in EXPECTED_HEADERS:
            assert [r[0] for r in _rows(out, name)] == [0.0, 0.05], name
        assert all(np.all(np.isnan(r[3:])) for r in _rows(out, "virial.csv"))
        assert [r[2] for r in _rows(out, "flags.csv")] == [0.0, 0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_flags_last_row_stride_2(self, tmp_path, capsys):
        # the step to t=1.5 overflows between snapshots: the last finite
        # snapshot, t=1.0, is the only one flagged
        text = BLOWUP_CONFIG.format(out=tmp_path / "out").replace(
            "t_end = 20.0", "t_end = 20.0\nsnapshot_stride = 2")
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == EXIT_BLOWUP
        assert "blow-up detected at t=1.5" in capsys.readouterr().err
        for name in EXPECTED_HEADERS:
            assert [r[0] for r in _rows(out, name)] == [0.0, 1.0], name
        assert [r[2] for r in _rows(out, "flags.csv")] == [0.0, 1.0]


class TestExitCodes:
    def test_config_error(self, tmp_path):
        path, _ = _write_config(tmp_path, "[bogus]\nx = 1\n")
        assert main(["run", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("theta3", ["auto", "1.5"])
    def test_verify_identities(self, tmp_path, capsys, theta3):
        # an explicit theta3 runs prop2 and prop3 only; the combined
        # identity needs the cancelling choice theta3 = 'auto'
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0"
        ) + f"\n[virial]\ntheta3 = {theta3}\n"
        path, _ = _write_config(tmp_path, text)
        assert main(["verify-identities", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        table = [line.split() for line in lines[1:4]]
        assert [float(r[0]) for r in table] == [2e-3, 1e-3, 5e-4]
        assert all(np.isfinite(float(x)) for r in table for x in r[1:3])
        if theta3 == "auto":
            assert all(np.isfinite(float(r[3])) for r in table)
            assert lines[-1].startswith("cancellation coefficient:")
        else:
            assert all(r[3] == "nan" for r in table)
            assert not any("cancellation" in line for line in lines)

    @pytest.mark.parametrize("command,change", [
        ("run", "alpha = 0.0"),  # theta3 = auto divides by alpha
        ("run", "gamma = 0.0"),  # the F moment divides by gamma
        ("verify-identities", "alpha = 0.0"),
        ("check-smallness", "alpha = 0.0"),  # the explicit constant needs alpha != 0
    ])
    def test_degenerate_parameters(self, tmp_path, capsys, command, change):
        # rejected before stepping, and before any CSV is opened
        key = change.split()[0]
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(f"{key} = 1.0", change)
        path, out = _write_config(tmp_path, text)
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "scan-decay"])
    def test_t_end_not_whole_steps(self, tmp_path, capsys, command):
        # t_end = 0.1 is not a whole number of dt = 0.03 steps: rejected by
        # load_config, before any stepping or output
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("dt = 0.01", "dt = 0.03")
        path, out = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="integer multiple of dt"):
            load_config(path)
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "check-smallness"])
    def test_initial_data_past_the_box(self, tmp_path, capsys, command):
        # a u width of 5 in a box of half-length 8 leaves too much of the
        # data at the edge: rejected before any stepping or output
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 256\nl = 8.0"
        ).replace("amplitude_v = 0.2", "amplitude_v = 0.2\nwidth_u = 5.0")
        path, out = _write_config(tmp_path, text)
        assert main([command, str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "boundary tail" in err
        assert not out.exists()

    @pytest.mark.parametrize("strict, code", [("true", EXIT_BOUNDARY), ("false", EXIT_OK)])
    def test_boundary_contamination(self, tmp_path, capsys, strict, code):
        # a packet with carrier 8 moves at group velocity 16: it starts clear
        # of the edge of a box of half-length 16 and reaches its outer tenth
        # by t = 0.6; only strict mode turns that into exit code 4
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "l = 32.0", "l = 16.0").replace("t_end = 0.1", "t_end = 0.8").replace(
            "family = gaussian", "family = modulated_gaussian\ncarrier = 8.0"
        ) + f"strict = {strict}\n"
        path, out = _write_config(tmp_path, text)
        assert main(["run", str(path)]) == code
        bmass = [r[1] for r in _rows(out, "flags.csv")]
        assert bmass[0] <= decay.BOUNDARY_TOLERANCE < bmass[-1]
        err = capsys.readouterr().err
        assert ("boundary contamination in strict mode" in err) == (code == EXIT_BOUNDARY)

    def test_check_smallness(self, tmp_path, capsys):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "beta = 0.0", "beta = -0.001"
        ).replace("amplitude_u = 0.2", "amplitude_u = 0.001").replace(
            "amplitude_v = 0.2", "amplitude_v = 0.001"
        )
        path, _ = _write_config(tmp_path, text)
        assert main(["check-smallness", str(path)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "criterion satisfied" in captured


class TestExperimentOutput:
    """Each subcommand prints what its experiment in skdv.experiments
    returns, formatted and nothing else."""

    @staticmethod
    def _spy(monkeypatch, name):
        returned = []
        original = getattr(experiments, name)

        def spy(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(experiments, name, spy)
        return returned

    def test_verify_identities(self, tmp_path, capsys, monkeypatch):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0")
        path, _ = _write_config(tmp_path, text)
        returned = self._spy(monkeypatch, "identity_window")
        assert main(["verify-identities", str(path)]) == EXIT_OK
        [rows] = returned
        assert [r[0] for r in rows] == [2e-3, 1e-3, 5e-4]
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [f"{dt:>10.1e} {a:>14.6e} {b:>14.6e} {c:>15.6e}"
                              for dt, a, b, c, _ in rows]
        assert lines[-1] == f"cancellation coefficient: {rows[-1][4]:.3e}"
        assert len(lines) == 8

    def test_scan_decay(self, tmp_path, capsys, monkeypatch):
        # snapshots every 0.1 to t = 2.2: the accumulators run from t = 2
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dt = 0.01\nt_end = 0.1\nsnapshot_stride = 5",
            "dt = 0.05\nt_end = 2.2\nsnapshot_stride = 2")
        path, _ = _write_config(tmp_path, text)
        returned = self._spy(monkeypatch, "decay_scan")
        assert main(["scan-decay", str(path)]) == EXIT_OK
        [scan] = returned
        assert len(scan.times) == 22 and len(scan.acc_rows) == 3
        assert scan.accumulators["mixed_kdv"].value > 0
        lines = capsys.readouterr().out.splitlines()
        for line, vals in zip(lines, (scan.mixed, scan.grad_v)):
            report = decay.liminf_tracker(scan.times, vals)
            assert f"running min {report.running_min:.6e}," in line
        assert lines[2:] == [f"accumulator {tag}: {scan.accumulators[tag].value:.6e}"
                             for tag in decay.ACCUMULATOR_TAGS]

    def test_convergence(self, tmp_path, capsys, monkeypatch):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "n = 256\nl = 32.0", "n = 64\nl = 16.0")
        path, _ = _write_config(tmp_path, text)
        errors = self._spy(monkeypatch, "analytic_errors")
        drifts = self._spy(monkeypatch, "drift_halving")
        assert main(["convergence", str(path)]) == EXIT_OK
        [(err_u, err_v)], [rows] = errors, drifts
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"free-Schrodinger L2 error at t=1: {err_u:.3e}",
                             f"KdV soliton L2 shape error at t=5: {err_v:.3e}"]
        assert [r[0] for r in rows] == [4e-3, 2e-3, 1e-3]
        assert lines[3:6] == [f"{dt:>10.1e} {dq:>14.6e} {de:>14.6e}" for dt, dq, de in rows]
        assert len(lines) == 8
