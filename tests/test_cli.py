"""Tests for config parsing, CSV emission and exit codes."""

import numpy as np
import pytest

from skdv import virial
from skdv.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from skdv.integrator import run
from skdv.model import make_initial_data

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

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
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "family = gaussian", "family = zero"
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
            assert row[1] == virial.functional_J2(s, cfg.virial, cfg.params)
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
